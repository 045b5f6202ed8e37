// A std:: algorithm under a lock shares its name with a blocking project
// method: `std::fill` is never `Loader20::fill`, so there is no hazard.
// CONC-EXPECT: clean
#include "_prelude.h"

class Loader20 {
 public:
  GLOBE_BLOCKING void fill(int* first, int* last, int value);
};

class Buffer20 {
 public:
  void clear() {
    util::LockGuard g(mu_);
    std::fill(data_, data_ + 4, 0);
  }

 private:
  util::Mutex mu_;
  int data_[4] = {};
};
