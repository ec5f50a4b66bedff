// Negative-compile probe: an engine whose setter WRITES a GUARDED_BY
// member without taking the mutex (the shape of a setter racing concurrent
// Evaluate readers). Under Clang with -Werror=thread-safety-analysis this
// translation unit MUST FAIL to compile; the configure-time check in
// tests/CMakeLists.txt raises FATAL_ERROR if it ever succeeds. The probe
// pins the WRITE side specifically — unlocked_access.cc already pins the
// read side — so neither direction of the annotation can rot alone.
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace {

enum class Strategy { kA, kB };

struct Engine {
  mutable toppriv::util::Mutex mu;
  Strategy strategy GUARDED_BY(mu) = Strategy::kA;

  void set_strategy(Strategy s) { strategy = s; }  // the violation under test
};

}  // namespace

int main() {
  Engine e;
  e.set_strategy(Strategy::kB);
  return 0;
}
